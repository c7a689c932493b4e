"""In-memory span recording for the benchmark's traced runs.

A :class:`Tracer` keeps every span in memory — name, start, end, parent,
thread and the workload/request id it belongs to — and writes them as
Chrome trace-event JSON when the benchmark ends.  :meth:`Wrappers.install`
wraps the public entry points of each layer of the ``repro`` package *from
outside* (class attributes and module globals are swapped for timing
wrappers), and :meth:`Wrappers.remove` puts the originals back; nothing
inside the package changes.

A span's *self time* is its duration minus the time its child spans cover.
Children always run on the parent's thread, nested by a per-thread stack,
so they never overlap one another.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Span:
    """One timed call: ``end`` is ``None`` until the call returns."""

    __slots__ = ("id", "name", "start", "end", "parent", "tid", "rid", "attrs")

    def __init__(self, id_, name, start, parent, tid, rid) -> None:
        self.id = id_
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent
        self.tid = tid
        self.rid = rid
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """Records spans in memory; thread-safe, one stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.origin = time.perf_counter()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_rid(self, rid: Optional[str]) -> None:
        """Tag every span this thread opens from now on with ``rid``."""
        self._local.rid = rid

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        with self._lock:
            record = Span(
                len(self.spans),
                name,
                time.perf_counter(),
                parent,
                threading.get_ident(),
                getattr(self._local, "rid", None),
            )
            self.spans.append(record)
        record.attrs.update(attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id → duration minus the part its children cover."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        return {span.id: span.duration - child_time.get(span.id, 0.0) for span in self.spans}

    def covered(self, start: float, end: float, skip: Tuple[str, ...] = ()) -> float:
        """Seconds of ``[start, end]`` covered by at least one span."""
        intervals = sorted(
            (max(span.start, start), min(span.end, end))
            for span in self.spans
            if span.end is not None and span.name not in skip
            and span.end > start and span.start < end
        )
        total = 0.0
        cursor = start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                total += hi - lo
                cursor = hi
        return total

    def write_chrome_trace(self, path: str) -> None:
        """Write every span as Chrome trace-event ("X" complete events)."""
        threads: Dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = threads.setdefault(span.tid, len(threads))
            args = {"id": span.id, "parent": span.parent, "rid": span.rid}
            args.update(span.attrs)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round((span.start - self.origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": os.getpid(),
                    "tid": tid,
                    "args": args,
                }
            )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class NullTracer:
    """The untraced run's tracer: spans cost one context-manager call."""

    def set_rid(self, rid: Optional[str]) -> None:
        pass

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        yield None


# ----------------------------------------------------------------------
# Wrapping the package's public entry points
# ----------------------------------------------------------------------
def _committed(result) -> int:
    return result.metrics.committed_instructions


def _targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, attrs(args, kwargs, result)) to wrap.

    Module-level functions are wrapped where the *caller* looks them up
    (the executor imports ``simulate_lanes``/``simulate_windowed`` by name,
    the service imports ``run_cells``), class methods on the class.
    """
    from repro.compiler.binaries import BinaryFactory
    from repro.emulator.executor import Emulator
    from repro.engine import executor
    from repro.engine.executor import ExecutionEngine
    from repro.engine.store import ArtifactStore
    from repro.pipeline.core import OutOfOrderCore
    from repro.serve import service
    from repro.sweep.spec import SweepSpec

    def store_get(args, kwargs, result):
        return {"kind": args[1], "hit": result is not None}

    def store_put(args, kwargs, result):
        return {"kind": args[1], "bytes": os.path.getsize(result)}

    def rows(args, kwargs, result):
        return {"rows": result if isinstance(result, int) else len(result)}

    return [
        (BinaryFactory, "build_baseline", "compiler.build", None),
        (BinaryFactory, "build_if_converted", "compiler.build", None),
        (Emulator, "run_pack", "emulator.run_pack", rows),
        (ExecutionEngine, "plan", "planner.plan", None),
        (ExecutionEngine, "run", "executor.run", None),
        (ArtifactStore, "get", "store.get", store_get),
        (ArtifactStore, "put", "store.put", store_put),
        (ArtifactStore, "put_file", "store.put", store_put),
        (
            executor,
            "simulate_lanes",
            "pipeline.lanes",
            lambda a, k, r: {"insts": sum(_committed(x) for x in r)},
        ),
        (OutOfOrderCore, "run", "pipeline.core", lambda a, k, r: {"insts": _committed(r)}),
        (
            executor,
            "simulate_windowed",
            "pipeline.windowed",
            lambda a, k, r: {"insts": _committed(r)},
        ),
        (SweepSpec, "definition", "sweep.expand", None),
        (SweepSpec, "labels", "sweep.expand", None),
        (service, "run_cells", "serve.job", None),
    ]


class Wrappers:
    """The installed wrappers; :meth:`remove` restores every original."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> "Wrappers":
        for owner, attribute, name, attrs in _targets():
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, attrs))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _wrap(self, original: Callable, name: str, attrs: Optional[Callable]) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            # A serve job's spans carry its job id (run_cells' name=).
            rid = kwargs.get("name") if name == "serve.job" else None
            if rid is not None:
                tracer.set_rid(rid)
            try:
                with tracer.span(name) as span:
                    result = original(*args, **kwargs)
                    if attrs is not None:
                        span.attrs.update(attrs(args, kwargs, result))
                    return result
            finally:
                if rid is not None:
                    tracer.set_rid(None)

        return wrapper
