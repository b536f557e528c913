"""Result cache for simulation points.

The cache keeps **sealed results**, live.  In memory they are keyed by
:func:`repro.perf.fingerprint.lookup_key` tuples, which name a point by
value; on disk, one file per point is named by its
:func:`repro.perf.fingerprint.fingerprint_point` digest, which is stable
across processes.  A caller passes that name as a zero-argument
callable, so the sha256 is made only when a disk tier is configured.

* ``get``, and ``get_or_compute`` on a miss, return a *copy*
  (:func:`copy.copy`): an :class:`~repro.core.executor.IterationResult`
  copy owns its fields and its two small containers, so callers (e.g.
  vDNN_dyn's relabelling of the adopted result) can change what they get
  back without touching the entry, and it shares the entry's timeline
  and usage curve, which are read-only.
* Those two logs are sealed when the result is made: their numeric
  columns are typed arrays, so a live entry costs about what its pickle
  did, and nothing a caller does can change them.
* Pickling remains only where bytes cross a boundary: the on-disk tier
  and the results of :mod:`repro.perf.sweep`'s worker processes.

In-memory entries live in an LRU ordered dict; the optional on-disk
store persists results across runs.  Both layers are controlled by
environment variables so benchmarks and tests can be run with caching
disabled (``REPRO_NO_CACHE=1``) to prove results are bit-identical
either way.
"""

from __future__ import annotations

import os
import pickle
import threading
from collections import OrderedDict
from copy import copy
from dataclasses import asdict, dataclass
from typing import Any, Callable, Hashable, Optional

#: Disable all caching when set to a non-empty, non-"0" value.
ENV_DISABLE = "REPRO_NO_CACHE"
#: In-memory LRU capacity (number of entries).
ENV_SIZE = "REPRO_CACHE_SIZE"
#: Optional directory for the on-disk store.
ENV_DIR = "REPRO_CACHE_DIR"

DEFAULT_MAX_ENTRIES = 256

#: An entry's name on disk, made on demand (a sha256 digest).
Name = Optional[Callable[[], str]]


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

    def snapshot(self) -> dict:
        return asdict(self)


class SimulationCache:
    """LRU cache of sealed simulation results, with optional disk tier."""

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
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()
        #: Optional ``repro.obs.Instrumentation``; mirrors ``stats`` into
        #: the ``repro_cache_events_total`` counter family.  Assignable
        #: after construction (``cache.obs = obs``) so the process-wide
        #: cache can be instrumented per run.
        self.obs = obs

    # ------------------------------------------------------------------
    def _disk_path(self, name: Name) -> Optional[str]:
        """The entry's file, or None when it does not reach the disk."""
        if not self.disk_dir or name is None:
            return None
        return os.path.join(self.disk_dir, f"{name()}.pkl")

    def get(self, key: Hashable, name: Name = None) -> Optional[Any]:
        """A copy of the cached value, or None on a miss.  An entry with
        a ``name`` is also looked for on disk."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                if self.obs is not None:
                    self.obs.cache_event("hit")
                return copy(value)
        path = self._disk_path(name)
        if path is not None and os.path.exists(path):
            with open(path, "rb") as handle:
                value = pickle.load(handle)
            self.put(key, value)
            with self._lock:
                self.stats.disk_hits += 1
                if self.obs is not None:
                    self.obs.cache_event("disk_hit")
            return copy(value)
        with self._lock:
            self.stats.misses += 1
            if self.obs is not None:
                self.obs.cache_event("miss")
        return None

    def put(self, key: Hashable, value: Any, name: Name = None) -> None:
        """Keep ``value`` itself, which its caller no longer changes; one
        with a ``name`` is also pickled to disk."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.stats.stores += 1
            if self.obs is not None:
                self.obs.cache_event("store")
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self.obs is not None:
                    self.obs.cache_event("eviction")
        path = self._disk_path(name)
        if path is not None:
            os.makedirs(self.disk_dir, exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any],
                       name: Name = None) -> Any:
        """A copy of the value for ``key``, computing and storing it on a
        miss."""
        cached = self.get(key, name)
        if cached is not None:
            return cached
        value = compute()
        self.put(key, value, name)
        return copy(value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries


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
