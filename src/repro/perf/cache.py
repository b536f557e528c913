"""Content-addressed result cache for simulation points.

The cache stores **pickled** :class:`IterationResult` blobs keyed by
:func:`repro.perf.fingerprint.fingerprint_point` digests.  Storing bytes
rather than live objects buys two properties for free:

* every hit returns a *fresh* deep copy, so callers (e.g. vDNN_dyn's
  relabeling of the adopted result) can mutate what they get back
  without corrupting the cache;
* every value is serialization-validated at ``put`` time, which is the
  same contract the cross-process sweep executor needs.

In-memory entries live in an LRU ordered dict; an optional on-disk store
(one file per fingerprint) persists results across runs.  Both layers
are controlled by environment variables so benchmarks and tests can be
run with caching disabled (``REPRO_NO_CACHE=1``) to prove results are
bit-identical either way.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

#: Disable all caching when set to a non-empty, non-"0" value.
ENV_DISABLE = "REPRO_NO_CACHE"
#: In-memory LRU capacity (number of entries).
ENV_SIZE = "REPRO_CACHE_SIZE"
#: Optional directory for the on-disk store.
ENV_DIR = "REPRO_CACHE_DIR"

DEFAULT_MAX_ENTRIES = 256


def env_int(name: str, default: int) -> int:
    """The integer in environment variable ``name``; ``default`` when it
    is unset or empty.  Anything else raises ``ValueError`` naming the
    variable and its value."""
    raw = os.environ.get(name, "")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not an integer") from None


@dataclass
class CacheStats:
    """Hit/miss accounting, exposed for tests and the perf benchmark."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    evictions: int = 0

    def reset(self) -> None:
        self.hits = self.misses = self.disk_hits = 0
        self.stores = self.evictions = 0

    def snapshot(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "stores": self.stores,
            "evictions": self.evictions,
        }


class SimulationCache:
    """LRU cache of pickled simulation results, with optional disk tier."""

    def __init__(
        self,
        max_entries: Optional[int] = None,
        disk_dir: Optional[str] = None,
        obs: Optional[Any] = None,
    ):
        if max_entries is None:
            max_entries = env_int(ENV_SIZE, DEFAULT_MAX_ENTRIES)
        if max_entries <= 0:
            raise ValueError("cache max_entries must be positive")
        if disk_dir is None:
            disk_dir = os.environ.get(ENV_DIR) or None
        self.max_entries = max_entries
        self.disk_dir = disk_dir
        self._blobs: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        #: Optional ``repro.obs.Instrumentation``; mirrors ``stats`` into
        #: the ``repro_cache_events_total`` counter family.  Assignable
        #: after construction (``cache.obs = obs``) so the process-wide
        #: cache can be instrumented per run.
        self.obs = obs

    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> str:
        return os.path.join(self.disk_dir, f"{key}.pkl")

    def get_blob(self, key: str) -> Optional[bytes]:
        """The raw pickled entry for ``key``, or None on a miss."""
        with self._lock:
            blob = self._blobs.get(key)
            if blob is not None:
                self._blobs.move_to_end(key)
                self.stats.hits += 1
                if self.obs is not None:
                    self.obs.cache_event("hit")
                return blob
        if self.disk_dir:
            path = self._disk_path(key)
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    blob = handle.read()
                self.put_blob(key, blob, write_disk=False)
                with self._lock:
                    self.stats.disk_hits += 1
                    if self.obs is not None:
                        self.obs.cache_event("disk_hit")
                return blob
        with self._lock:
            self.stats.misses += 1
            if self.obs is not None:
                self.obs.cache_event("miss")
        return None

    def put_blob(self, key: str, blob: bytes, write_disk: bool = True) -> None:
        """Insert an already-pickled entry (used by the sweep executor)."""
        with self._lock:
            self._blobs[key] = blob
            self._blobs.move_to_end(key)
            self.stats.stores += 1
            if self.obs is not None:
                self.obs.cache_event("store")
            while len(self._blobs) > self.max_entries:
                self._blobs.popitem(last=False)
                self.stats.evictions += 1
                if self.obs is not None:
                    self.obs.cache_event("eviction")
        if write_disk and self.disk_dir:
            os.makedirs(self.disk_dir, exist_ok=True)
            path = self._disk_path(key)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Any]:
        """A fresh copy of the cached value, or None on a miss."""
        blob = self.get_blob(key)
        return pickle.loads(blob) if blob is not None else None

    def put(self, key: str, value: Any) -> None:
        self.put_blob(key, pickle.dumps(value, pickle.HIGHEST_PROTOCOL))

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        """Cached value for ``key``, computing and storing on a miss.

        On a miss the *live* computed object is returned (not a pickle
        round-trip) so the cold path is bit-identical to no caching.
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        value = compute()
        self.put(key, value)
        return value

    def clear(self) -> None:
        with self._lock:
            self._blobs.clear()
            self.stats.reset()

    def __len__(self) -> int:
        with self._lock:
            return len(self._blobs)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._blobs


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------
_cache: Optional[SimulationCache] = None
_cache_lock = threading.Lock()


def get_cache() -> SimulationCache:
    """The process-wide simulation cache (created lazily)."""
    global _cache
    with _cache_lock:
        if _cache is None:
            _cache = SimulationCache()
        return _cache


def set_cache(cache: Optional[SimulationCache]) -> None:
    """Replace the process-wide cache (None = recreate lazily)."""
    global _cache
    with _cache_lock:
        _cache = cache


def configure_cache(
    max_entries: Optional[int] = None, disk_dir: Optional[str] = None
) -> SimulationCache:
    """Install and return a fresh process-wide cache."""
    cache = SimulationCache(max_entries=max_entries, disk_dir=disk_dir)
    set_cache(cache)
    return cache


def cache_enabled(use_cache: Optional[bool] = None) -> bool:
    """Whether caching applies: explicit flag wins, then the environment.

    ``use_cache=False`` (or ``REPRO_NO_CACHE=1``) restores the exact
    pre-cache behavior: every call simulates from scratch.
    """
    if use_cache is not None:
        return use_cache
    return os.environ.get(ENV_DISABLE, "0") in ("", "0")
