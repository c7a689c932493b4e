"""Content-addressed on-disk artifact store.

The store persists the artifact kinds of the experiment job graph —
compiled binaries, dynamic traces, simulation results and mid-simulation
resume checkpoints — across processes,
keyed by the content hash of everything that determines them (profile,
workload, flavour, scheme configuration; see :mod:`repro.engine.planner`).
Running ``repro figure6`` after ``repro figure5`` therefore never recompiles
or re-traces a (benchmark, flavour) cell the first run already produced.

Layout (all artifacts live under a format-version directory so format bumps
invalidate everything at once)::

    <root>/v1/binaries/<key>.pkl   + <key>.json   (metadata sidecar)
    <root>/v1/traces/<key>.pkl    + <key>.json
    <root>/v1/results/<key>.pkl   + <key>.json

Writes are atomic (unique temp file + ``os.replace``) so concurrent worker
processes can share one store.

**Integrity.** Every ``put`` records a SHA-256 digest of the encoded
payload in the metadata sidecar, and every ``get`` verifies it before
decoding — so at-rest corruption (bit flips, torn writes) is *detected*,
not just decode failures.  Damaged artifacts are **quarantined** (moved to
``<root>/v1/quarantine/``, surfaced by :meth:`ArtifactStore.usage` and the
``repro cache stats`` CLI) rather than silently deleted, and the ``get``
reports a miss so the caller transparently regenerates the artifact.
Orphaned ``.json`` sidecars — left when a crash interrupts a remove
between the payload unlink and the sidecar unlink — are swept by
:meth:`ArtifactStore.ensure_root`.

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
import time
import uuid
from typing import Any, Callable, Collection, Dict, List, Optional, Tuple

from repro import faults
from repro.emulator.trace import deserialize_trace, serialize_trace
from repro.log import get_logger

_log = get_logger(__name__)

#: Bump to invalidate every previously stored artifact.
STORE_FORMAT_VERSION = 1

#: Artifact kinds, in build order.  Checkpoints are mid-simulation resume
#: snapshots (windowed runs; see :mod:`repro.pipeline.windowed`) — transient
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


def _read_bytes(path: str) -> bytes:
    """A whole file's bytes, read unbuffered (one sized read, no copy
    through a buffer layer)."""
    with open(path, "rb", buffering=0) as handle:
        return handle.read()


def _pickle_dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


#: Per-kind (encode, decode) codecs.  Traces use the versioned columnar
#: encoding from the emulator layer (see :mod:`repro.emulator.trace`);
#: binaries and results are plain pickles.
_CODECS: Dict[str, Tuple[Callable[[Any], bytes], Callable[[bytes], Any]]] = {
    BINARIES: (_pickle_dumps, pickle.loads),
    TRACES: (serialize_trace, deserialize_trace),
    RESULTS: (_pickle_dumps, pickle.loads),
    CHECKPOINTS: (_pickle_dumps, pickle.loads),
}


class ArtifactStore:
    """A content-addressed store rooted at one directory."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = default_cache_dir(root)

    # ------------------------------------------------------------------
    def ensure_root(self) -> Optional[str]:
        """Create the store's format-version directory if it is missing.

        Inspection commands (``repro cache stats``/``path``) call this so a
        store pointed at a directory that does not exist yet is lazily
        created and reported as empty instead of erroring.  Returns the
        created directory, or ``None`` when creation failed (e.g. the
        configured root is not a writable directory) — in that case the
        store still behaves as empty.

        Also sweeps **orphaned sidecars**: a remove that crashed between
        the payload unlink and the sidecar unlink leaves a ``.json`` with
        no ``.pkl``, which would skew :meth:`entries`-based reporting
        forever.  ``put`` writes the payload before the sidecar, so a
        sidecar without a payload is always stale — never a write in
        flight.
        """
        base = os.path.join(self.root, f"v{STORE_FORMAT_VERSION}")
        try:
            os.makedirs(base, exist_ok=True)
        except OSError:
            return None
        self._sweep_orphan_sidecars()
        return base

    def _sweep_orphan_sidecars(self) -> int:
        """Remove ``.json`` sidecars whose payload is gone; return count."""
        removed = 0
        for kind in KINDS:
            directory = self._kind_dir(kind)
            try:
                names = os.listdir(directory)
            except OSError:
                continue
            present = set(names)
            for name in names:
                if not name.endswith(".json"):
                    continue
                if f"{name[: -len('.json')]}.pkl" in present:
                    continue
                try:
                    os.remove(os.path.join(directory, name))
                    removed += 1
                except OSError:
                    pass
        if removed:
            _log.info("swept %d orphaned metadata sidecar(s) under %s", removed, self.root)
        return removed

    def _kind_dir(self, kind: str) -> str:
        if kind not in KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}; expected {KINDS}")
        return os.path.join(self.root, f"v{STORE_FORMAT_VERSION}", kind)

    def path(self, kind: str, key: str) -> str:
        """Path of the artifact payload for ``key`` (may not exist)."""
        return os.path.join(self._kind_dir(kind), f"{key}.pkl")

    def _meta_path(self, kind: str, key: str) -> str:
        return os.path.join(self._kind_dir(kind), f"{key}.json")

    # ------------------------------------------------------------------
    def contains(self, kind: str, key: str) -> bool:
        """True when an artifact of ``kind`` is stored under ``key``."""
        return os.path.exists(self.path(kind, key))

    def get(self, kind: str, key: str) -> Optional[Any]:
        """Load one artifact, or ``None`` on a miss.

        The payload's SHA-256 digest is verified against the metadata
        sidecar (when one recorded it) *before* decoding, so silent at-rest
        corruption — a bit flip that still unpickles — is caught, not just
        decode failures.  Damaged artifacts are quarantined (moved under
        ``<root>/v1/quarantine/``, never silently deleted) and reported as
        misses, so the caller transparently regenerates them while the
        evidence stays inspectable.  A sidecar that exists but does not
        parse is damage too (sidecars are written atomically): the
        artifact is quarantined rather than decoded unverified.
        """
        path = self.path(kind, key)
        try:
            data = _read_bytes(path)
        except OSError:
            return None
        try:
            recorded = self._recorded_digest(kind, key)
        except ValueError:
            self._quarantine(kind, key, "metadata sidecar unreadable")
            return None
        if recorded is not None and hashlib.sha256(data).hexdigest() != recorded:
            self._quarantine(kind, key, "payload digest mismatch")
            return None
        try:
            obj = _CODECS[kind][1](data)
        except Exception as error:
            self._quarantine(kind, key, f"decode failed: {type(error).__name__}")
            return None
        # Record the hit: payload mtime is the artifact's last-hit time,
        # which is what size-gated eviction orders by (LRU).
        try:
            os.utime(path, None)
        except OSError:
            pass
        return obj

    def put(
        self, kind: str, key: str, obj: Any, metadata: Optional[Dict[str, Any]] = None
    ) -> str:
        """Store one artifact atomically and return its payload path.

        The metadata sidecar records a SHA-256 digest of the encoded
        payload; :meth:`get` verifies it on every load.
        """
        directory = self._kind_dir(kind)
        os.makedirs(directory, exist_ok=True)
        data = _CODECS[kind][0](obj)
        path = self.path(kind, key)
        self._atomic_write(directory, path, data)
        meta = dict(metadata or {})
        meta.update(
            kind=kind,
            key=key,
            size_bytes=len(data),
            created=time.time(),
            sha256=hashlib.sha256(data).hexdigest(),
        )
        self._atomic_write(
            directory,
            self._meta_path(kind, key),
            json.dumps(meta, sort_keys=True).encode("utf-8"),
        )
        # Chaos-testing hook: corrupt-artifact-bytes / truncate-payload
        # damage the payload *after* the true digest was recorded, exactly
        # like post-write bit rot (no-op unless REPRO_FAULTS enables them).
        faults.corrupt_payload(path)
        return path

    def _recorded_digest(self, kind: str, key: str) -> Optional[str]:
        """The sidecar's payload digest, or ``None`` when not recorded.

        A missing sidecar is not damage: a concurrent ``put`` writes the
        payload before its sidecar.  Neither is a legacy sidecar without a
        ``sha256`` field.  A sidecar that does not parse as a JSON object
        raises :class:`ValueError`.
        """
        try:
            raw = _read_bytes(self._meta_path(kind, key))
        except OSError:
            return None
        meta = json.loads(raw)
        if not isinstance(meta, dict):
            raise ValueError("metadata sidecar is not a JSON object")
        digest = meta.get("sha256")
        return digest if isinstance(digest, str) else None

    @staticmethod
    def _atomic_write(directory: str, path: str, data: bytes) -> None:
        tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}")
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)

    def _remove(self, kind: str, key: str) -> None:
        for path in (self.path(kind, key), self._meta_path(kind, key)):
            try:
                os.remove(path)
            except OSError:
                pass

    def discard(self, kind: str, key: str) -> None:
        """Remove one artifact (payload + sidecar); a no-op when absent.

        The engine uses this to drop a job's resume checkpoint once the
        finished result is stored — a checkpoint that outlived its run
        would only waste eviction budget.
        """
        self._remove(kind, key)

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

    def put_file(
        self, kind: str, key: str, path: str, metadata: Optional[Dict[str, Any]] = None
    ) -> str:
        """Adopt an already-encoded payload file as the artifact for ``key``.

        ``path`` must hold bytes the kind's codec decodes (for traces: the
        versioned trace encoding, e.g. an RTP3 chunk stream written by
        :class:`~repro.emulator.tracepack.ChunkedPackWriter`).  The file is
        renamed into place — the streaming counterpart of :meth:`put`, with
        the same digest-recording sidecar and integrity guarantees, without
        ever holding the payload in memory.
        """
        directory = self._kind_dir(kind)
        os.makedirs(directory, exist_ok=True)
        digest = hashlib.sha256()
        size = 0
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
                size += len(block)
        target = self.path(kind, key)
        os.replace(path, target)
        meta = dict(metadata or {})
        meta.update(
            kind=kind,
            key=key,
            size_bytes=size,
            created=time.time(),
            sha256=digest.hexdigest(),
        )
        self._atomic_write(
            directory,
            self._meta_path(kind, key),
            json.dumps(meta, sort_keys=True).encode("utf-8"),
        )
        faults.corrupt_payload(target)
        return target

    # ------------------------------------------------------------------
    # Quarantine (damaged artifacts; see get())
    # ------------------------------------------------------------------
    def quarantine_dir(self) -> str:
        """Directory holding quarantined (damaged) artifacts."""
        return os.path.join(self.root, f"v{STORE_FORMAT_VERSION}", "quarantine")

    def _quarantine(self, kind: str, key: str, reason: str) -> None:
        """Move a damaged artifact (payload + sidecar) into quarantine.

        The sidecar is rewritten with the quarantine ``reason`` and
        timestamp so a post-mortem knows what failed and when.  Filenames
        are ``<kind>__<key>.*`` — kinds share one directory, and a repeat
        quarantine of the same key overwrites the previous evidence.
        """
        directory = self.quarantine_dir()
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError:
            self._remove(kind, key)
            return
        _log.warning("quarantining %s/%s: %s", kind, key, reason)
        payload = self.path(kind, key)
        sidecar = self._meta_path(kind, key)
        try:
            os.replace(payload, os.path.join(directory, f"{kind}__{key}.pkl"))
        except OSError:
            pass
        meta: Dict[str, Any] = {}
        try:
            with open(sidecar, "r", encoding="utf-8") as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                meta = loaded
        except (OSError, ValueError):
            pass
        meta.update(
            kind=kind,
            key=key,
            quarantine_reason=reason,
            quarantined=time.time(),
        )
        self._atomic_write(
            directory,
            os.path.join(directory, f"{kind}__{key}.json"),
            json.dumps(meta, sort_keys=True).encode("utf-8"),
        )
        try:
            os.remove(sidecar)
        except OSError:
            pass

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
    def entries(self, kind: str) -> List[Dict[str, Any]]:
        """Metadata of every stored artifact of one kind."""
        directory = self._kind_dir(kind)
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

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-kind artifact counts and payload sizes.

        A store root that does not exist yet is created lazily and reported
        as zero entries of every kind.
        """
        self.ensure_root()
        report: Dict[str, Dict[str, int]] = {}
        for kind in KINDS:
            directory = self._kind_dir(kind)
            count = 0
            size = 0
            try:
                names = os.listdir(directory)
            except OSError:
                names = []
            for name in names:
                if name.endswith(".pkl"):
                    count += 1
                    try:
                        size += os.path.getsize(os.path.join(directory, name))
                    except OSError:
                        pass
            report[kind] = {"count": count, "bytes": size}
        return report

    def usage(self) -> Dict[str, Dict[str, Any]]:
        """Per-kind entry counts, payload bytes and last-hit timestamps.

        A superset of :meth:`stats` for operational callers (the ``repro
        cache stats`` CLI and the serve daemon's ``GET /v1/store/stats``):
        each kind additionally reports ``oldest_hit``/``newest_hit`` (epoch
        seconds of the least/most recently hit payload, ``None`` when the
        kind is empty), and a ``total`` pseudo-kind aggregates counts and
        bytes across kinds — the number eviction gates on.  A ``quarantine``
        pseudo-kind reports damaged artifacts set aside by :meth:`get`;
        those bytes are *not* part of ``total`` (they are never evicted or
        served, only inspected and cleared).
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
        return report

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
        payload bytes}``.  Metadata sidecars go with their payloads; the
        scan is stat-based, so concurrent writers are safe (a racing
        re-``put`` simply re-creates the entry).
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
            self._remove(kind, key)
            total -= size
            removed["count"] += 1
            removed["bytes"] += size
        return removed

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete stored artifacts (one kind, or everything); return count."""
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
