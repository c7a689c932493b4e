"""Stable content hashing for cache keys.

Artifact-store keys must be identical across processes and interpreter
invocations, so they are derived from a *canonical* JSON rendering of the
job's inputs (``hash()`` is salted per-process and unusable here).  Anything
JSON cannot express directly — dataclasses, tuples, enums — is normalised
first; unknown objects fall back to ``repr`` which is stable for the
configuration dataclasses used throughout this code base.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from functools import lru_cache
from typing import Any, Callable, Dict, Optional, Tuple


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serialisable structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    cls = type(obj)
    if hasattr(cls, "__dataclass_fields__") and not isinstance(obj, type):
        fields = {name: canonicalize(getattr(obj, name)) for name in _field_names(cls)}
        return {"__dataclass__": cls.__name__, **fields}
    if isinstance(obj, dict):
        items = {_key_string(key): canonicalize(value) for key, value in obj.items()}
        return dict(sorted(items.items()))
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_key_string(item) for item in obj)
    return repr(obj)


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """A dataclass type's field names, in declaration order.

    Cached per type: they depend only on the class definition, never on
    an instance, and looking them up is most of the cost of hashing a
    dataclass tree such as a workload's traits.
    """
    return tuple(field.name for field in dataclasses.fields(cls))


def _key_string(key: Any) -> str:
    """A deterministic string form of a mapping key or set member."""
    canonical = canonicalize(key)
    if isinstance(canonical, str):
        return canonical
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def canonical_json(part: Any) -> str:
    """The canonical JSON text of one key part."""
    return json.dumps(canonicalize(part), sort_keys=True, separators=(",", ":"))


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def stable_hash(*parts: Any) -> str:
    """Return a short hex digest uniquely identifying ``parts``."""
    return _digest(canonical_json(list(parts)))


class KeySplicer:
    """:func:`stable_hash` for many keys that share parts.

    The payload :func:`stable_hash` digests is the canonical JSON of the
    list of parts, which is exactly ``"[" + ",".join(texts) + "]"`` where
    each text is :func:`canonical_json` of one part.  A splicer renders
    each part once per source object and joins the texts, so keys that
    repeat a part (the store-format/code prefix, a scheme, a machine, a
    trace key) stop re-canonicalising it.  Texts are memoised by object
    identity, holding the source so its id stays unique; make one
    splicer per batch of keys and drop it afterwards, so an object edited
    later can never be served its old text.
    """

    def __init__(self, *prefix: Any) -> None:
        self._texts: Dict[Tuple[int, Any], Tuple[Any, str]] = {}
        self._prefix = tuple(canonical_json(part) for part in prefix)

    def part(self, source: Any, derive: Optional[Callable[[Any], Any]] = None) -> str:
        """The canonical JSON text of ``derive(source)`` (default: ``source``)."""
        memo = (id(source), derive)
        entry = self._texts.get(memo)
        if entry is None:
            text = canonical_json(source if derive is None else derive(source))
            entry = self._texts[memo] = (source, text)
        return entry[1]

    def hash(self, *texts: str) -> str:
        """``stable_hash(*prefix, *parts)``, given the parts' texts."""
        return _digest("[" + ",".join(self._prefix + texts) + "]")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every source file in the ``repro`` package.

    Folded into all artifact cache keys: any edit to the simulator, the
    compiler, the workload generators — anything that could change what a
    job produces — changes the fingerprint and therefore misses the cache,
    so a persistent store can never serve results computed by old code.
    Deliberately conservative (the whole package, not a dependency slice):
    for a paper reproduction, an unnecessary rebuild is cheap and a stale
    headline table is not.
    """
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]
