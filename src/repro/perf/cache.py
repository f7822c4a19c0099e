"""Content-keyed artifact cache for expensive derived artifacts.

Experiments regenerate the same synthetic datasets, fitted predictors,
stage-latency tables, allocator inputs and serving request streams
(arrival patterns and per-request seed degrees) over and over: every
registered experiment prices a handful of datasets, and every serving
load point replays one stream, so the same deterministic artifact is
rebuilt dozens of times per sweep.  This module provides one keyed
cache for all of them:

* **in-process** — a dict behind a lock, always on;
* **on-disk** — enabled by setting the ``REPRO_CACHE_DIR`` environment
  variable (or constructing :class:`ArtifactCache` with ``disk_dir``);
  artifacts are pickled to ``<dir>/<namespace>/<key>.pkl`` with an
  atomic rename, so concurrent processes (the ``--jobs`` runner) can
  share one cache directory safely.

Keys are *content* keys: :func:`cache_key` hashes the actual values —
ints, floats, strings, numpy arrays (dtype + shape + bytes), dataclasses
(field by field), and anything exposing ``content_fingerprint()`` (e.g.
:class:`repro.graphs.graph.Graph`).  Two callers that pass equal content
get the same artifact regardless of where the values came from;
unhashable inputs (including object-dtype arrays, whose bytes are element
pointers) raise instead of colliding silently.

A frozen dataclass with no ndarray field (``HardwareConfig``,
``ComponentSpec``, ``TimingParams``) has its content fixed at
construction, so its encoded byte stream is computed once per instance
and fed to the hasher from then on: digests are byte-identical to a
fresh walk.  The memo lives in a module-level table keyed by object
identity and dropped when the object is collected, so it never reaches a
pickle or a copy.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
import threading
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import GoPIMError

ENV_DISK_CACHE = "REPRO_CACHE_DIR"
# Size cap on the disk tier in megabytes; least-recently-used artifacts
# (by mtime, refreshed on every disk hit) are evicted once the tier
# exceeds it.  The default is generous — a full sweep's artifacts are a
# few hundred MB at most — so eviction only engages on shared or
# long-lived cache directories.
ENV_DISK_CACHE_MAX_MB = "REPRO_CACHE_MAX_MB"
DEFAULT_DISK_CACHE_MAX_MB = 2048.0


class CacheKeyError(GoPIMError):
    """A value passed to :func:`cache_key` cannot be hashed stably."""


def _encode(value: Any, hasher) -> None:
    """Feed a stable byte encoding of ``value`` into ``hasher``."""
    if value is None:
        hasher.update(b"N")
    elif isinstance(value, bool):
        hasher.update(b"B" + (b"1" if value else b"0"))
    elif isinstance(value, (int, np.integer)):
        hasher.update(b"I" + str(int(value)).encode())
    elif isinstance(value, (float, np.floating)):
        hasher.update(b"F" + repr(float(value)).encode())
    elif isinstance(value, str):
        hasher.update(b"S" + str(len(value)).encode() + b":" + value.encode())
    elif isinstance(value, bytes):
        hasher.update(b"Y" + str(len(value)).encode() + b":" + value)
    elif isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise CacheKeyError(
                "cannot build a stable cache key from an object-dtype "
                "array: its bytes are element pointers, not content"
            )
        arr = np.ascontiguousarray(value)
        hasher.update(b"A" + str(arr.dtype).encode() + str(arr.shape).encode())
        hasher.update(arr.tobytes())
    elif isinstance(value, (tuple, list)):
        hasher.update(b"T" + str(len(value)).encode() + b"[")
        for item in value:
            _encode(item, hasher)
        hasher.update(b"]")
    elif isinstance(value, dict):
        hasher.update(b"D" + str(len(value)).encode() + b"{")
        for key in sorted(value, key=str):
            _encode(str(key), hasher)
            _encode(value[key], hasher)
        hasher.update(b"}")
    elif isinstance(value, enum.Enum):
        hasher.update(b"E" + type(value).__name__.encode())
        _encode(value.value, hasher)
    elif hasattr(value, "content_fingerprint"):
        hasher.update(b"C" + str(value.content_fingerprint()).encode())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        encoded = _ENCODINGS.get(id(value))
        hasher.update(encoded if encoded is not None else _encode_fields(value))
    else:
        raise CacheKeyError(
            f"cannot build a stable cache key from {type(value).__name__}; "
            "pass primitives, numpy arrays, dataclasses, or objects with "
            "a content_fingerprint() method"
        )


class _ByteSink(list):
    """Hasher stand-in that keeps the chunks :func:`_encode` feeds it."""

    update = list.append


# id(value) -> encoded bytes of a live dataclass whose content is fixed
# at construction.  Keyed by identity, not equality: equal values can
# encode differently (``1 == 1.0``, but ``I1`` != ``F1.0``).  A finalizer
# drops the entry when the value is collected, so a reused id never
# finds a stale entry.  Threads racing on one value store equal bytes,
# and no entry ever changes a digest, so no lock is needed.
_ENCODINGS: Dict[int, bytes] = {}


def _encode_fields(value: Any) -> bytes:
    """A dataclass's encoding, remembered when its content is fixed."""
    sink = _ByteSink()
    sink.update(b"O" + type(value).__name__.encode() + b"(")
    fields = dataclasses.fields(value)
    for field in fields:
        _encode(field.name, sink)
        _encode(getattr(value, field.name), sink)
    sink.update(b")")
    encoded = b"".join(sink)
    if type(value).__dataclass_params__.frozen and not any(
        isinstance(getattr(value, field.name), np.ndarray) for field in fields
    ):
        try:
            weakref.finalize(value, _ENCODINGS.pop, id(value), None)
        except TypeError:  # no weakref slot: encode afresh every time
            return encoded
        _ENCODINGS[id(value)] = encoded
    return encoded


def cache_key(*parts: Any) -> str:
    """Stable hex digest of the given content parts."""
    hasher = hashlib.sha256()
    for part in parts:
        _encode(part, hasher)
        hasher.update(b"|")
    return hasher.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters (in-process and on-disk tallied separately).

    ``corrupt`` counts, per namespace, the disk entries that failed to
    unpickle; each of them also counts as a miss.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    corrupt: Dict[str, int] = field(default_factory=dict)

    @property
    def hits(self) -> int:
        """Total hits from either tier."""
        return self.memory_hits + self.disk_hits


_MISSING = object()


class ArtifactCache:
    """Two-tier (memory + optional disk) content-keyed artifact cache.

    Parameters
    ----------
    disk_dir:
        On-disk cache root.  ``None`` defers to the ``REPRO_CACHE_DIR``
        environment variable, checked at call time so tests and the CLI
        can flip it without rebuilding the cache object; an empty-string
        environment value keeps disk caching off.
    """

    def __init__(self, disk_dir: Optional[str] = None) -> None:
        self._disk_dir = disk_dir
        self._memory: Dict[Tuple[str, str], Any] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def _disk_root(self) -> Optional[Path]:
        root = self._disk_dir or os.environ.get(ENV_DISK_CACHE) or None
        return Path(root) if root else None

    def _disk_path(self, namespace: str, key: str) -> Optional[Path]:
        root = self._disk_root()
        if root is None:
            return None
        safe_ns = namespace.replace(os.sep, "_")
        return root / safe_ns / f"{key}.pkl"

    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        namespace: str,
        key: str,
        compute: Callable[[], Any],
    ) -> Any:
        """Return the cached artifact for ``(namespace, key)`` or build it."""
        mem_key = (namespace, key)
        with self._lock:
            if mem_key in self._memory:
                self.stats.memory_hits += 1
                return self._memory[mem_key]
        path = self._disk_path(namespace, key)
        value = self._read_disk(path, mem_key)
        if value is not _MISSING:
            return value

        value = compute()
        with self._lock:
            self.stats.misses += 1
            self._memory[mem_key] = value
        if path is not None:
            self._write_disk(path, value)
            self._evict_over_cap()
        return value

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        """Cached artifact for ``(namespace, key)``, or ``default``.

        Probe-only counterpart of :meth:`get_or_compute` for callers that
        batch their misses (e.g. ``allocation.allocate_many``): hits are
        promoted and counted exactly as there, misses are tallied and
        left for the caller to compute and :meth:`put` back.
        """
        mem_key = (namespace, key)
        with self._lock:
            if mem_key in self._memory:
                self.stats.memory_hits += 1
                return self._memory[mem_key]
        value = self._read_disk(self._disk_path(namespace, key), mem_key)
        if value is not _MISSING:
            return value
        with self._lock:
            self.stats.misses += 1
        return default

    def _read_disk(
        self, path: Optional[Path], mem_key: Tuple[str, str],
    ) -> Any:
        """The disk tier's artifact, promoted to memory, or ``_MISSING``.

        An entry that fails to unpickle for any reason (a partial or
        garbage file, a class renamed or a module removed since it was
        written) reads as a miss, is counted in ``stats.corrupt`` under
        its namespace, and is overwritten once the caller recomputes it.
        """
        if path is None:
            return _MISSING
        try:
            handle = open(path, "rb")
        except OSError:  # absent, or evicted since: a plain miss
            return _MISSING
        with handle:
            try:
                value = pickle.load(handle)
            except Exception:
                namespace = mem_key[0]
                with self._lock:
                    corrupt = self.stats.corrupt
                    corrupt[namespace] = corrupt.get(namespace, 0) + 1
                return _MISSING
        try:
            # Refresh recency so LRU eviction spares live entries.
            os.utime(path)
        except OSError:
            pass
        with self._lock:
            self.stats.disk_hits += 1
            self._memory[mem_key] = value
        return value

    def put(self, namespace: str, key: str, value: Any) -> None:
        """Store an artifact computed out of band (both tiers)."""
        with self._lock:
            self._memory[(namespace, key)] = value
        path = self._disk_path(namespace, key)
        if path is not None:
            self._write_disk(path, value)
            self._evict_over_cap()

    @staticmethod
    def _write_disk(path: Path, value: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish: concurrent --jobs workers may race on one key.
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    @staticmethod
    def _disk_cap_bytes() -> float:
        raw = os.environ.get(ENV_DISK_CACHE_MAX_MB, "").strip()
        if not raw:
            return DEFAULT_DISK_CACHE_MAX_MB * 1e6
        try:
            cap = float(raw)
        except ValueError:
            return DEFAULT_DISK_CACHE_MAX_MB * 1e6
        return max(0.0, cap) * 1e6

    def _evict_over_cap(self) -> int:
        """Drop least-recently-used disk artifacts above the size cap.

        Recency is mtime: refreshed on every disk hit and set at write
        time, so eviction order is true LRU across processes sharing the
        directory.  Returns the number of files removed.
        """
        root = self._disk_root()
        if root is None or not root.exists():
            return 0
        cap = self._disk_cap_bytes()
        entries = []
        total = 0
        for path in root.rglob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= cap:
            return 0
        evicted = 0
        for _, size, path in sorted(entries):
            try:
                path.unlink()
            except OSError:
                continue
            evicted += 1
            total -= size
            if total <= cap:
                break
        return evicted

    def spill_to_disk(self) -> int:
        """Publish every in-memory artifact to the disk tier.

        Lets a warm process seed a newly configured ``REPRO_CACHE_DIR``
        (e.g. the sweep runner's shared scratch tier) so sibling worker
        processes start from its artifacts instead of recomputing them.
        No-op without a disk root; returns the number of files written.
        """
        root = self._disk_root()
        if root is None:
            return 0
        with self._lock:
            snapshot = list(self._memory.items())
        written = 0
        for (namespace, key), value in snapshot:
            path = self._disk_path(namespace, key)
            if path is None or path.exists():
                continue
            try:
                self._write_disk(path, value)
            except (pickle.PicklingError, TypeError, AttributeError):
                continue  # unpicklable artifacts stay memory-only
            written += 1
        if written:
            self._evict_over_cap()
        return written

    # ------------------------------------------------------------------
    def contains(self, namespace: str, key: str) -> bool:
        """Whether the in-process tier holds this artifact."""
        with self._lock:
            return (namespace, key) in self._memory

    def clear(self, disk: bool = False) -> None:
        """Drop the in-process tier (and optionally the disk tier)."""
        with self._lock:
            self._memory.clear()
            self.stats = CacheStats()
        if disk:
            root = self._disk_root()
            if root is not None and root.exists():
                for entry in root.rglob("*.pkl"):
                    try:
                        entry.unlink()
                    except OSError:
                        pass

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)


_default_cache = ArtifactCache()


def get_cache() -> ArtifactCache:
    """The process-wide default artifact cache."""
    return _default_cache


def clear_cache(disk: bool = False) -> None:
    """Reset the default cache (tests and the CLI's cold-start paths)."""
    _default_cache.clear(disk=disk)
